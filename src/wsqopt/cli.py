"""Command-line entry point: generate instances, solve them, run experiments.

Every command is fully determined by its flags and the master seed; primary
outputs are byte-identical across reruns (wall-time fields excluded). Exit
codes: 0 success, 2 invalid configuration, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments
from .generators import GbmConfig, complete_graph, gbm_portfolio, random_graph
from .io import (
    gram_factor_to_dict,
    read_graph,
    read_portfolio,
    write_graph,
    write_json,
    write_jsonl,
    write_portfolio,
)
from .problems import (
    brute_force,
    cut_value,
    maxcut_to_ising,
    portfolio_qubo,
    qubo_to_ising,
)
from .relaxation import (
    IterationLimitError,
    NotConvexError,
    expected_cut_value,
    gw_best_cuts,
    solve_maxcut_sdp,
    solve_qp,
)
from .rqaoa import METHOD_MODES, AmbiguousEliminationError, RqaoaConfig, run_rqaoa
from .simulator import STANDARD_X, WARM_START, WARM_START_ROUNDED, StateTooLargeError
from .variational import GridSpec, cut_probability, run_qaoa

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

SOLVE_METHODS = (
    "qp",
    "sdp",
    "gw",
    "qaoa",
    "ws-qaoa",
    "rqaoa",
    "ws-rqaoa",
    "classical-gw",
    "brute",
)

RATIO_MAX_NODES = 20


class ConfigError(ValueError):
    """Invalid combination of command-line options."""


def _parse_grid(text: str) -> GridSpec:
    try:
        beta_points, gamma_points = (int(part) for part in text.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"--grid expects 'BxG', got {text!r}") from exc
    return GridSpec(
        beta_range=(0.0, np.pi * (beta_points - 1) / beta_points),
        gamma_range=(0.0, 2.0 * np.pi * (gamma_points - 1) / gamma_points),
        beta_points=beta_points,
        gamma_points=gamma_points,
    )


def _load_instance(path: str):
    """Detect the instance kind: JSON payloads are portfolios, else graphs."""
    text = Path(path).read_text(encoding="utf-8", errors="replace").lstrip()
    if text.startswith("{"):
        return "portfolio", read_portfolio(path)
    return "graph", read_graph(path)


def _most_probable_bits(state) -> list:
    index = int(np.argmax(state.probabilities()))
    return [(index >> i) & 1 for i in range(state.n)]


def cmd_generate(args) -> int:
    seed = args.seed
    if args.kind == "graph-er":
        weights = [float(w) for w in args.weights.split(",")]
        graph = random_graph(args.n, args.p_edge, weights=weights, seed=seed)
        write_graph(args.out, graph)
    elif args.kind == "graph-complete":
        graph = complete_graph(args.n, args.weight_lo, args.weight_hi, seed=seed)
        write_graph(args.out, graph)
    elif args.kind == "portfolio":
        cfg = GbmConfig(n_assets=args.n, n_days=args.days, seed=seed)
        instance = gbm_portfolio(
            cfg, q=args.q, budget=args.budget, penalty=args.penalty
        )
        write_portfolio(args.out, instance, seed=seed)
    else:
        raise ConfigError(f"unknown generator kind {args.kind!r}")
    return EXIT_OK


def _solve_graph(args, graph) -> dict:
    method = args.method
    seed = args.seed
    result: dict = {}
    trace_rows = None
    optimum = None  # (z, ground) of an exact solve that already ran
    grid = _parse_grid(args.grid) if args.grid else None
    if method == "brute":
        optimum = brute_force(maxcut_to_ising(graph))
        z, ground = optimum
        result["value"] = -ground
        result["assignment"] = z.tolist()
    elif method == "sdp":
        factor = solve_maxcut_sdp(graph, seed=seed)
        result["value"] = factor.objective
        result["expected_cut"] = expected_cut_value(graph, factor)
        result["factor"] = gram_factor_to_dict(factor)
        result["converged"] = factor.converged
    elif method == "gw":
        cuts = gw_best_cuts(graph, args.gw_samples, 1, seed=seed)
        best = cuts[0]
        result["value"] = cut_value(graph, best.z)
        result["assignment"] = best.z.tolist()
    elif method in ("qaoa", "ws-qaoa"):
        ising = maxcut_to_ising(graph)
        seeding = ("random", args.multistart) if args.multistart else "grid"
        if method == "qaoa":
            qaoa = run_qaoa(
                ising, STANDARD_X, p=args.p, seeding=seeding, grid=grid, seed=seed
            )
        else:
            warm = gw_best_cuts(graph, args.gw_samples, 1, seed=seed)[0]
            qaoa = run_qaoa(
                ising,
                WARM_START_ROUNDED,
                c_star=warm.bits().astype(float),
                epsilon=args.epsilon,
                p=args.p,
                seeding=seeding,
                grid=grid,
                seed=seed,
            )
            result["warm_start_cut"] = warm.z.tolist()
        bits = _most_probable_bits(qaoa.state)
        z = (1 - 2 * np.asarray(bits)).tolist()
        result["energy"] = qaoa.energy
        result["betas"] = qaoa.params.betas.tolist()
        result["gammas"] = qaoa.params.gammas.tolist()
        result["evals"] = qaoa.evals
        result["assignment"] = z
        result["value"] = cut_value(graph, np.asarray(z))
        if graph.n <= RATIO_MAX_NODES:
            optimum = brute_force(ising)
            result["p_target"] = cut_probability(qaoa.state, optimum[0])
    elif method in METHOD_MODES:
        cfg = RqaoaConfig(
            n_stop=args.n_stop if args.n_stop else max(1, graph.n // 2),
            n_samples=args.gw_samples,
            keep=args.gw_keep,
            epsilon=args.epsilon,
            mode=METHOD_MODES[method],
            grid=grid,
        )
        outcome = run_rqaoa(graph, cfg, seed=seed)
        result["value"] = outcome.value
        result["assignment"] = outcome.assignment.z.tolist()
        result["eliminations"] = [
            {"eliminated": r.eliminated, "kept": r.kept, "sign": r.sign}
            for r in outcome.records
        ]
        trace_rows = outcome.trace
    else:
        raise ConfigError(f"method {method!r} does not apply to graph instances")

    if "value" in result and method != "sdp" and graph.n <= RATIO_MAX_NODES:
        _, ground = optimum or brute_force(maxcut_to_ising(graph))
        max_cut = -ground
        result["max_cut"] = max_cut
        result["ratio"] = experiments.cut_ratio(result["value"], max_cut)
        if method in METHOD_MODES:
            result["optimal"] = bool(abs(result["value"] - max_cut) < 1e-9)
    if trace_rows is not None:
        if args.trace:
            write_jsonl(args.trace, trace_rows)
        result["trace"] = trace_rows
    return result


def _solve_portfolio(args, instance) -> dict:
    method = args.method
    seed = args.seed
    qubo = portfolio_qubo(instance)
    ising = qubo_to_ising(qubo)
    result: dict = {}
    if method == "brute":
        z, ground = brute_force(ising)
        result["value"] = ground
        result["assignment"] = ((1 - z) // 2).tolist()
    elif method == "qp":
        relaxed = solve_qp(qubo)
        result["value"] = relaxed.objective
        result["c_star"] = relaxed.c_star.tolist()
        result["assignment"] = (relaxed.c_star >= 0.5).astype(int).tolist()
        result["iterations"] = relaxed.iterations
    elif method in ("qaoa", "ws-qaoa"):
        seeding = ("random", args.multistart) if args.multistart else ("random", 10)
        target = None
        if instance.n <= RATIO_MAX_NODES:
            z_star, ground = brute_force(ising)
            target = ((1 - z_star) // 2).tolist()
        if method == "qaoa":
            qaoa = run_qaoa(ising, STANDARD_X, p=args.p, seeding=seeding, seed=seed, target=target)
        else:
            relaxed = solve_qp(qubo)
            qaoa = run_qaoa(
                ising,
                WARM_START,
                c_star=relaxed.c_star,
                epsilon=args.epsilon,
                p=args.p,
                seeding=seeding,
                seed=seed,
                target=target,
            )
            result["c_star"] = relaxed.c_star.tolist()
        result["energy"] = qaoa.energy
        result["betas"] = qaoa.params.betas.tolist()
        result["gammas"] = qaoa.params.gammas.tolist()
        result["evals"] = qaoa.evals
        result["assignment"] = _most_probable_bits(qaoa.state)
        result["value"] = qaoa.energy
        if target is not None:
            result["p_target"] = qaoa.p_target
            result["min_energy"] = ground
            result["ratio"] = qaoa.energy / ground if ground else 0.0
    else:
        raise ConfigError(f"method {method!r} does not apply to portfolio instances")
    return result


def cmd_solve(args) -> int:
    kind, instance = _load_instance(args.instance)
    start = time.perf_counter()
    if kind == "graph":
        result = _solve_graph(args, instance)
    else:
        result = _solve_portfolio(args, instance)
    result["method"] = args.method
    result["seed"] = args.seed
    result["instance"] = str(args.instance)
    result["wall_time_s"] = time.perf_counter() - start
    result["config"] = {
        "p": args.p,
        "epsilon": args.epsilon,
        "n_stop": args.n_stop,
        "gw_samples": args.gw_samples,
        "gw_keep": args.gw_keep,
        "multistart": args.multistart,
        "grid": args.grid,
    }
    if args.out:
        write_json(args.out, result)
    else:
        json.dump(result, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return EXIT_OK


def _write_csv(path, rows):
    if not rows:
        raise ConfigError("experiment produced no rows")
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def cmd_experiment(args) -> int:
    seed = args.seed
    if args.recipe == "fig2":
        rows = experiments.portfolio_comparison(
            n_instances=args.instances or 25,
            n_assets=args.n or 6,
            depth=args.p,
            multistarts=args.multistart or 10,
            epsilon=args.epsilon if args.epsilon is not None else 0.0,
            seed=seed,
        )
    elif args.recipe == "fig4":
        rows = experiments.epsilon_sweep(
            n_graphs=args.instances or 5,
            n=args.n or 12,
            n_samples=args.gw_samples,
            keep=args.gw_keep,
            seed=seed,
        )
    elif args.recipe == "fig6":
        methods = ("gw", "rqaoa", "ws-rqaoa", "classical-gw")
        if args.mode:
            methods = tuple(args.mode.split(","))
        rows = experiments.recursive_comparison(
            n_graphs=args.instances or 30,
            n=args.n or 12,
            n_stop=args.n_stop,
            n_samples=args.gw_samples,
            keep=args.gw_keep,
            epsilon=args.epsilon if args.epsilon is not None else 0.25,
            seed=seed,
            methods=methods,
        )
    elif args.recipe == "fig7":
        rows = experiments.rounding_count_study(
            n_graphs=args.instances or 20,
            n=args.n or 12,
            seed=seed,
        )
    elif args.recipe == "prop2":
        rows = experiments.arcsin_law_check(
            n_pairs=args.instances or 10,
            trajectories=args.trajectories,
            dt=args.dt,
            seed=seed,
        )
    else:
        raise ConfigError(f"unknown recipe {args.recipe!r}")
    _write_csv(args.out, rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsqopt",
        description="Warm-started quantum optimization: relaxations, rounding, "
        "circuit simulation, and recursive solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random instance to a file")
    gen.add_argument("kind", choices=["graph-er", "graph-complete", "portfolio"])
    gen.add_argument("--n", type=int, required=True, help="nodes or assets")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--p-edge", type=float, default=0.5, help="edge probability (graph-er)")
    gen.add_argument("--weights", default="-1,1", help="comma list of edge weights (graph-er)")
    gen.add_argument("--weight-lo", type=int, default=-10)
    gen.add_argument("--weight-hi", type=int, default=10)
    gen.add_argument("--q", type=float, default=2.0, help="risk factor (portfolio)")
    gen.add_argument("--budget", type=int, default=None, help="assets to pick (portfolio)")
    gen.add_argument("--penalty", type=float, default=3.0, help="budget penalty weight")
    gen.add_argument("--days", type=int, default=250, help="simulated days (portfolio)")
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--method", choices=SOLVE_METHODS, required=True)
    solve.add_argument("--instance", required=True)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out", default=None)
    solve.add_argument("--p", "--depth", dest="p", type=int, default=1, help="circuit depth")
    solve.add_argument("--epsilon", type=float, default=0.25)
    solve.add_argument("--n-stop", type=int, default=None)
    solve.add_argument("--gw-samples", type=int, default=10, help="roundings per presolve")
    solve.add_argument("--gw-keep", type=int, default=5, help="retained unique cuts")
    solve.add_argument("--grid", default=None, help="seeding grid as BxG, e.g. 24x24")
    solve.add_argument("--multistart", type=int, default=None)
    solve.add_argument("--trace", default=None, help="write per-iteration JSON lines here")
    solve.set_defaults(func=cmd_solve)

    exp = sub.add_parser("experiment", help="run a recipe and write CSV")
    exp.add_argument("--recipe", choices=experiments.RECIPES, required=True)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--out", required=True)
    exp.add_argument("--n", type=int, default=None)
    exp.add_argument("--instances", type=int, default=None, help="instances / graphs / pairs")
    exp.add_argument("--p", "--depth", dest="p", type=int, default=1)
    exp.add_argument("--epsilon", type=float, default=None)
    exp.add_argument("--n-stop", type=int, default=None)
    exp.add_argument("--gw-samples", type=int, default=10)
    exp.add_argument("--gw-keep", type=int, default=5)
    exp.add_argument("--multistart", type=int, default=None)
    exp.add_argument("--mode", default=None)
    exp.add_argument("--trajectories", type=int, default=20_000)
    exp.add_argument("--dt", type=float, default=1e-3)
    exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        NotConvexError,
        IterationLimitError,
        AmbiguousEliminationError,
        StateTooLargeError,
    ) as exc:
        # solver failures subclass ValueError, so they must be caught first
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
