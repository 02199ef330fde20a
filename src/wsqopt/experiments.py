"""Reproducible experiment recipes emitting plot-ready rows.

Each recipe is a pure function of its parameters and a master seed; rows come
back as dictionaries in a deterministic order, ready to be written as CSV.
"""

from __future__ import annotations

import numpy as np

from .diffusion import DiffusionConfig, correlation_report, krivine_speed, simulate_signs
from .generators import GbmConfig, complete_graph, gbm_portfolio
from .problems import (
    brute_force,
    cut_value,
    maxcut_to_ising,
    portfolio_qubo,
    qubo_to_ising,
)
from .relaxation import GramFactor, gw_best_cuts, gw_round, solve_maxcut_sdp, solve_qp
from .rqaoa import METHOD_MODES, RqaoaConfig, run_rqaoa
from .seeding import derive_seed
from .simulator import STANDARD_X, WARM_START, WARM_START_ROUNDED, energy_table
from .variational import run_qaoa

RECIPES = ("fig2", "fig4", "fig6", "fig7", "prop2")


def cut_ratio(value: float, max_cut: float) -> float:
    """Cut value relative to the maximum cut.

    Heavily negative graphs can have maximum cut exactly 0 (everything on
    one side); those degenerate instances are graded by optimality so the
    ratio stays monotone in the cut value.
    """
    if max_cut != 0.0:
        return value / max_cut
    return 1.0 if value >= -1e-12 else 0.0


def energy_ratio(energy: float, min_energy: float, max_energy: float) -> float:
    """(E_max - E) / (E_max - E0): 1 at the ground energy E0, 0 at the highest.

    Unlike E / E0 it stays in [0, 1] for every energy of the model, whatever
    the sign of E0 or how close it is to 0. A model whose energies are all
    equal reads 1.
    """
    span = max_energy - min_energy
    return (max_energy - energy) / span if span > 0.0 else 1.0


def portfolio_comparison(
    n_instances: int = 25,
    n_assets: int = 6,
    q: float = 2.0,
    budget: int = 3,
    penalty: float = 3.0,
    depth: int = 1,
    multistarts: int = 10,
    epsilon: float = 0.0,
    seed: int = 0,
) -> list:
    """Warm-started vs standard runs on simulated portfolio instances.

    One row per (instance, method, depth) with the optimized energy, the
    exact lowest and highest energies, ``energy_ratio`` of the three, the
    probability of sampling the exact optimizer, and the overlap between
    relaxed and exact solutions.
    """
    rows = []
    for index in range(n_instances):
        cfg = GbmConfig(n_assets=n_assets, seed=derive_seed(seed, "gbm", index))
        instance = gbm_portfolio(cfg, q=q, budget=budget, penalty=penalty)
        qubo = portfolio_qubo(instance)
        ising = qubo_to_ising(qubo)
        z_star, ground = brute_force(ising)
        highest = float(energy_table(ising).max())
        target_bits = ((1 - z_star) // 2).astype(int)
        relaxed = solve_qp(qubo)
        overlap = float(target_bits @ relaxed.c_star / max(budget, 1))
        for p in range(1, depth + 1):
            for method, kind, c_star in (
                ("standard", STANDARD_X, None),
                ("warm-start", WARM_START, relaxed.c_star),
            ):
                result = run_qaoa(
                    ising,
                    kind,
                    c_star=c_star,
                    epsilon=epsilon,
                    p=p,
                    seeding=("random", multistarts),
                    seed=derive_seed(seed, "qaoa", index, method, p),
                    target=target_bits,
                )
                rows.append(
                    {
                        "instance": index,
                        "method": method,
                        "p": p,
                        "energy": result.energy,
                        "min_energy": ground,
                        "max_energy": highest,
                        "energy_ratio": energy_ratio(result.energy, ground, highest),
                        "p_optimal": result.p_target,
                        "overlap": overlap,
                    }
                )
    return rows


def epsilon_sweep(
    n_graphs: int = 5,
    n: int = 12,
    epsilons=(0.0, 0.1, 0.25, 0.4, 0.5),
    n_samples: int = 10,
    keep: int = 5,
    seed: int = 0,
) -> list:
    """Regularization sweep for cut-seeded depth-one runs on complete graphs.

    One row per (graph, retained cut, epsilon) with the seed cut's ratio to
    the maximum cut and the optimized energy ratio.
    """
    rows = []
    for index in range(n_graphs):
        graph = complete_graph(n, seed=derive_seed(seed, "graph", index))
        ising = maxcut_to_ising(graph)
        _, ground = brute_force(ising)
        max_cut = -ground
        cuts = gw_best_cuts(graph, n_samples, keep, seed=derive_seed(seed, "gw", index))
        for cut_index, cut in enumerate(cuts):
            seed_ratio = cut_ratio(cut_value(graph, cut.z), max_cut)
            for epsilon in epsilons:
                result = run_qaoa(
                    ising,
                    WARM_START_ROUNDED,
                    c_star=cut.bits().astype(float),
                    epsilon=epsilon,
                    p=1,
                    seeding="grid",
                )
                rows.append(
                    {
                        "graph": index,
                        "cut_index": cut_index,
                        "epsilon": epsilon,
                        "gw_cut_ratio": seed_ratio,
                        "optimized_ratio": cut_ratio(-result.energy, max_cut),
                        "beta": float(result.params.betas[0]),
                        "gamma": float(result.params.gammas[0]),
                    }
                )
    return rows


def recursive_comparison(
    n_graphs: int = 30,
    n: int = 12,
    n_stop: int | None = None,
    n_samples: int = 10,
    keep: int = 5,
    epsilon: float = 0.25,
    seed: int = 0,
    methods=("gw", "rqaoa", "ws-rqaoa", "classical-gw"),
) -> list:
    """Recursive solvers vs the one-shot rounding baseline on complete graphs.

    One row per (graph, method) with the found cut value, the exact maximum
    cut, their ratio, and whether the maximum was attained.
    """
    if n_stop is None:
        n_stop = n // 2
    rows = []
    for index in range(n_graphs):
        graph = complete_graph(n, seed=derive_seed(seed, "graph", index))
        _, ground = brute_force(maxcut_to_ising(graph))
        max_cut = -ground
        for method in methods:
            method_seed = derive_seed(seed, method, index)
            if method == "gw":
                cuts = gw_best_cuts(graph, n_samples, 1, seed=method_seed)
                value = cut_value(graph, cuts[0].z)
            elif method in METHOD_MODES:
                cfg = RqaoaConfig(
                    n_stop=n_stop, n_samples=n_samples, keep=keep,
                    epsilon=epsilon, mode=METHOD_MODES[method],
                )
                value = run_rqaoa(graph, cfg, seed=method_seed).value
            else:
                raise ValueError(f"unknown method {method!r}")
            rows.append(
                {
                    "graph": index,
                    "method": method,
                    "value": value,
                    "max_cut": max_cut,
                    "ratio": cut_ratio(value, max_cut),
                    "found_optimal": int(abs(value - max_cut) < 1e-9),
                }
            )
    return rows


def rounding_count_study(
    n_graphs: int = 20,
    n: int = 12,
    sample_counts=(1, 10, 100),
    seed: int = 0,
) -> list:
    """Cut quality as a function of the number of roundings.

    For each graph the roundings are drawn once from a single stream and the
    best-of-N statistic uses the first N of them, so the best-of-N column is
    nondecreasing in N by construction. One row per (graph, N).
    """
    sample_counts = sorted(sample_counts)
    most = sample_counts[-1]
    rows = []
    for index in range(n_graphs):
        graph = complete_graph(n, seed=derive_seed(seed, "graph", index))
        _, ground = brute_force(maxcut_to_ising(graph))
        max_cut = -ground
        factor = solve_maxcut_sdp(graph, seed=derive_seed(seed, "sdp", index))
        rng = np.random.default_rng(derive_seed(seed, "round", index))
        values = np.array(
            [cut_value(graph, gw_round(factor, rng).z) for _ in range(most)]
        )
        for count in sample_counts:
            prefix = values[:count]
            rows.append(
                {
                    "graph": index,
                    "n_samples": count,
                    "best_ratio": cut_ratio(float(prefix.max()), max_cut),
                    "avg_ratio": cut_ratio(float(prefix.mean()), max_cut),
                    "min_ratio": cut_ratio(float(prefix.min()), max_cut),
                    "found_optimal": int(abs(prefix.max() - max_cut) < 1e-9),
                }
            )
    return rows


def arcsin_law_check(
    n_pairs: int = 10,
    dim: int = 8,
    trajectories: int = 20_000,
    dt: float = 1e-3,
    seed: int = 0,
) -> list:
    """Diffusion-rounding correlations vs the arcsin prediction.

    Builds random unit-vector pairs, runs the Gaussian-quantile-speed
    diffusion, and reports one row per pair.
    """
    rng = np.random.default_rng(derive_seed(seed, "pairs"))
    vectors = rng.standard_normal((2 * n_pairs, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    factor = GramFactor(vectors=vectors, objective=0.0)
    cfg = DiffusionConfig(
        dt=dt, trajectories=trajectories, seed=derive_seed(seed, "diffusion")
    )
    samples = simulate_signs(factor, krivine_speed, cfg)
    pairs = [(2 * i, 2 * i + 1) for i in range(n_pairs)]
    rows = []
    for row in correlation_report(samples, factor, pairs):
        rows.append(
            {
                "u_dot_v": row.dot,
                "empirical": row.empirical,
                "predicted": row.predicted,
                "abs_err": row.abs_error,
                "stderr": row.stderr,
                "truncated_frac": row.truncated_frac,
            }
        )
    return rows
