"""The benchmark's workloads: seeded instances, timed operations, checks.

A workload writes its instance files from the workload seed, then runs
rounds. One round is the workload's fixed list of operations; each
operation is one ``wsqopt solve`` through ``wsqopt.cli.main`` or, where the
CLI has no such operation, one call of a public function. After the rounds
the workload checks every output against ``reference`` and returns one
normalised ratio per solution.

The benchmark runs two workloads, each made of two parts: ``recursion``
(recursive max-cut, then the relaxation and its roundings) builds no
statevector, and ``statevector`` (QAOA on a 14-node graph, then portfolios)
runs no depth-one correlator and no diffusion. Two long runs measure more
steadily than four short ones in the same total time on a machine whose
slow spells last tens of seconds.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import reference as ref

N_STOP = 6
# tolerances of the checks; energies are O(100) on graphs, O(10) on portfolios
ENERGY_TOL = 1e-8
PROB_TOL = 1e-9
# objectives of the portfolio relaxation are O(1e-3)
QP_GAP_TOL = 1e-7
# the program's default tolerance on the KKT residual of solve_qp, plus
# round-off between its gradient and the reference's
KKT_TOL = 1e-8 + 1e-12
# the sample means of the roundings must lie this many standard errors
# from the closed-form expected cut
STDERR_LIMIT = 4.0


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference."""


class OperationFailed(RuntimeError):
    """The CLI returned a nonzero exit code."""


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def sub_seed(seed: int, *labels) -> int:
    """31-bit seed derived from the workload seed and a label path."""
    text = ":".join(str(x) for x in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def write_complete_graph(path: Path, n: int, seed: int) -> list:
    """Complete graph with integer weights uniform on [-10, 10]; zeros dropped."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(-10, 11, size=n * (n - 1) // 2)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [(i, j, float(w)) for (i, j), w in zip(pairs, weights) if w != 0]
    lines = [f"{n} {len(edges)}"] + [f"{i} {j} {int(w)}" for i, j, w in edges]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return edges


def write_portfolio(path: Path, n: int, seed: int) -> dict:
    """Portfolio from simulated geometric-Brownian-motion prices.

    Per asset: drift uniform on [-0.05, 0.05], volatility uniform on
    [0.05, 0.25], 250 daily steps. ``mu`` is the mean daily return and
    ``sigma`` the sample covariance; budget n // 2, q = 2, lambda = 3.
    """
    rng = np.random.default_rng(seed)
    days = 250
    drift = rng.uniform(-0.05, 0.05, size=n)
    vol = rng.uniform(0.05, 0.25, size=n)
    log_steps = (drift - 0.5 * vol**2)[:, None] / days + vol[:, None] * rng.standard_normal((n, days)) / np.sqrt(days)
    prices = np.exp(np.cumsum(log_steps, axis=1))
    previous = np.concatenate([np.ones((n, 1)), prices[:, :-1]], axis=1)
    returns = prices / previous - 1.0
    cov = np.cov(returns)
    instance = {
        "sigma": (0.5 * (cov + cov.T)).tolist(),
        "mu": returns.mean(axis=1).tolist(),
        "q": 2.0,
        "B": n // 2,
        "lambda": 3.0,
        "seed": seed,
    }
    path.write_text(json.dumps(instance), encoding="utf-8")
    return instance


class Workload:
    """Base: instances in ``workdir``, a list of operations, checks."""

    def __init__(self, program, seed: int, workdir: Path):
        self.program = program
        self.seed = seed
        self.workdir = workdir
        self.ops: list = []  # (label, callable)
        self.results: dict = {}
        # label -> why its output is wrong; such an operation fails in every round
        self.faults: dict = {}
        self.prepare()

    def prepare(self):
        raise NotImplementedError

    def solve(self, label: str, instance: Path, args: list):
        """Add one ``wsqopt solve`` operation writing ``<label>.json``."""
        out = self.workdir / f"{label}.json"
        argv = ["solve", "--instance", str(instance), "--out", str(out)] + [str(a) for a in args]

        def op():
            code = self.program.cli.main(argv)
            if code != 0:
                raise OperationFailed(f"wsqopt {' '.join(argv)} exited with {code}")

        self.ops.append((label, op))

    def clear(self):
        """Remove the result files of the previous round."""
        for label, _ in self.ops:
            (self.workdir / f"{label}.json").unlink(missing_ok=True)

    def collect(self):
        """Read every result file; on later rounds they must not change."""
        for label, _ in self.ops:
            path = self.workdir / f"{label}.json"
            if not path.exists():
                continue
            result = json.loads(path.read_text(encoding="utf-8"))
            result.pop("wall_time_s", None)
            previous = self.results.setdefault(label, result)
            require(previous == result, f"{label}: output changed between rounds")

    def check(self) -> list:
        raise NotImplementedError


class RecursiveMaxcut(Workload):
    """gw, classical-gw, rqaoa and ws-rqaoa on one complete 12-node graph.

    ``--gw-keep 1`` fixes the work of ws-rqaoa at one depth-one optimisation
    per level: with the default of 5 the number of distinct presolver cuts,
    and so the run time, varies between graphs by a factor of three.
    """

    NAME = "recursive-maxcut"
    N = 12
    METHODS = ("gw", "classical-gw", "rqaoa", "ws-rqaoa")

    def prepare(self):
        path = self.workdir / "graph.txt"
        self.edges = write_complete_graph(path, self.N, sub_seed(self.seed, "recursive-maxcut"))
        for method in self.METHODS:
            args = ["--method", method, "--seed", sub_seed(self.seed, "solve"), "--n-stop", N_STOP, "--gw-keep", 1]
            self.solve(method, path, args)

    def check(self) -> list:
        cuts = ref.cut_table(self.N, self.edges)
        max_cut, min_cut = cuts.max(), cuts.min()
        ratios = []
        for method in self.METHODS:
            r = self.results[method]
            z = np.asarray(r["assignment"])
            value = ref.cut_of(self.edges, z)
            require(r["value"] == value, f"{method}: value {r['value']} != recomputed cut {value}")
            require(r["max_cut"] == max_cut, f"{method}: max_cut {r['max_cut']} != {max_cut}")
            require(value <= max_cut, f"{method}: cut {value} exceeds the maximum {max_cut}")
            if method != "gw":
                pins = r["eliminations"]
                require(len(pins) == self.N - N_STOP, f"{method}: {len(pins)} pins, expected {self.N - N_STOP}")
                for pin in pins:
                    require(z[pin["eliminated"]] == pin["sign"] * z[pin["kept"]], f"{method}: assignment breaks {pin}")
            ratios.append(ref.normalised_ratio(-value, -max_cut, -min_cut))
        return ratios


def check_state(label, r, energies, n, kind, theta, target_index, single_target):
    """Energy, target probability and readout of a qaoa / ws-qaoa result."""
    probs = ref.qaoa_probabilities(energies, n, kind, theta, r["betas"], r["gammas"])
    energy = float(probs @ energies)
    scale = max(1.0, float(np.abs(energies).max()))
    require(abs(r["energy"] - energy) <= ENERGY_TOL * scale, f"{label}: energy {r['energy']} != reference {energy}")
    e0, e_max = energies.min(), energies.max()
    require(e0 - ENERGY_TOL * scale <= r["energy"] <= e_max + ENERGY_TOL * scale, f"{label}: energy outside [E0, Emax]")
    p_target = probs[target_index]
    if not single_target:
        complement = target_index ^ ((1 << n) - 1)
        p_target = max(p_target, probs[complement])
    require(abs(r["p_target"] - p_target) <= PROB_TOL, f"{label}: p_target {r['p_target']} != reference {p_target}")
    return energy, probs


class QaoaStatevector(Workload):
    """qaoa and ws-qaoa at p = 1 with grid seeding on one complete 14-node graph.

    14 rather than 16 nodes, so that its solves take seconds and a run holds
    several rounds whose fastest times filter out bursts of contention.
    """

    NAME = "qaoa-statevector"
    N = 14
    METHODS = ("qaoa", "ws-qaoa")
    EPSILON = 0.25

    def prepare(self):
        path = self.workdir / "graph.txt"
        self.edges = write_complete_graph(path, self.N, sub_seed(self.seed, "qaoa-statevector"))
        for method in self.METHODS:
            args = ["--method", method, "--seed", sub_seed(self.seed, "solve"), "--p", 1, "--epsilon", self.EPSILON]
            self.solve(method, path, args)

    def check(self) -> list:
        n = self.N
        cuts = ref.cut_table(n, self.edges)
        energies = -cuts
        max_cut, min_cut = cuts.max(), cuts.min()
        target = ref.lexicographic_argmin(energies, n)
        ratios = []
        for method in self.METHODS:
            r = self.results[method]
            z = np.asarray(r["assignment"])
            value = ref.cut_of(self.edges, z)
            require(r["value"] == value, f"{method}: value {r['value']} != recomputed cut {value}")
            require(r["max_cut"] == max_cut, f"{method}: max_cut {r['max_cut']} != {max_cut}")
            require(value <= max_cut, f"{method}: cut {value} exceeds the maximum {max_cut}")
            if method == "qaoa":
                kind, theta = ref.STANDARD_X, None
            else:
                warm = np.asarray(r["warm_start_cut"])
                kind, theta = ref.WARM_START_ROUNDED, ref.warm_angles((1 - warm) // 2, self.EPSILON)
                warm_energy = -ref.cut_of(self.edges, warm)
                require(
                    r["energy"] <= warm_energy + ENERGY_TOL * max_cut,
                    f"{method}: energy {r['energy']} above the warm-start cut's {warm_energy}",
                )
            energy, _ = check_state(method, r, energies, n, kind, theta, target, single_target=False)
            ratios.append(ref.normalised_ratio(energy, -max_cut, -min_cut))
        return ratios


def portfolio_args(instance: dict) -> tuple:
    return instance["sigma"], instance["mu"], instance["q"], instance["B"], instance["lambda"]


class PortfolioDepth(Workload):
    """qp, qaoa and ws-qaoa at p = 1 and 2 on a 6- and an 8-asset portfolio.

    Both instances are the same in every run. The relaxed optimum of the
    6-asset one has exactly two fractional coordinates: on such instances
    ws-qaoa at p = 2 needs 11k-20k Nelder-Mead evaluations over its ten
    starts instead of about 2.5k, so its solver seed is fixed too, and the
    cost is in every run where a fix can show it. On the 8-asset one
    ``solve_qp`` stops short of the box KKT conditions (see CHANGES.md), so
    its ``qp`` solve fails the KKT check in every round and is counted as a
    failed operation; its solver seed comes from the workload seed. On
    seeded 8-asset instances the same fault shows on 4 of 300 seeds, which
    would make the share of failed operations depend on the seed.
    """

    NAME = "portfolio-depth"
    SOLVES = (("qp", 1), ("qaoa", 1), ("ws-qaoa", 1), ("qaoa", 2), ("ws-qaoa", 2))
    # (seed of the instance file, assets, solver seed or None for one from the workload seed)
    INSTANCES = ((1705544512, 6, 110467608), (1006299472, 8, None))

    def prepare(self):
        self.instances = []
        for k, (instance_seed, n, solver_seed) in enumerate(self.INSTANCES):
            path = self.workdir / f"portfolio{k}.json"
            self.instances.append(write_portfolio(path, n, instance_seed))
            seed = sub_seed(self.seed, "solve", k) if solver_seed is None else solver_seed
            for method, p in self.SOLVES:
                args = ["--method", method]
                if method != "qp":  # the relaxation takes no seed
                    args += ["--seed", seed, "--p", p, "--multistart", 10, "--epsilon", 0]
                self.solve(f"i{k}-{method}-p{p}", path, args)

    def check_relaxed(self, label, inst, c_star) -> float:
        """Box KKT conditions and objective of a relaxed solution; returns its objective.

        A KKT residual above the program's own tolerance marks the operation
        as failed; a point outside the box or an objective above the exact
        box minimum is a failed check.
        """
        args = portfolio_args(inst)
        c = np.asarray(c_star, dtype=float)
        require(np.all((c >= 0.0) & (c <= 1.0)), f"{label}: c_star outside [0, 1]^n")
        h, g = ref.portfolio_quadratic(*args)
        residual = ref.box_kkt_residual(c, h @ c + g)
        if residual > KKT_TOL:
            self.faults[label] = f"box KKT residual {residual:.3g} of c_star exceeds {KKT_TOL:g}"
        objective = ref.portfolio_objective(*args, c)
        best = ref.portfolio_objective(*args, ref.box_minimiser(*args))
        require(objective - best <= QP_GAP_TOL, f"{label}: relaxed objective {objective} is above the minimum {best}")
        return objective

    def check(self) -> list:
        ratios = []
        for k, inst in enumerate(self.instances):
            n = len(inst["mu"])
            energies = ref.portfolio_table(*portfolio_args(inst))
            e0, e_max = energies.min(), energies.max()
            target = ref.lexicographic_argmin(energies, n)
            qp = self.results[f"i{k}-qp-p1"]
            for method, p in self.SOLVES:
                label = f"i{k}-{method}-p{p}"
                r = self.results[label]
                if method == "qp":
                    objective = self.check_relaxed(label, inst, r["c_star"])
                    require(abs(r["value"] - objective) <= ENERGY_TOL, f"{label}: value != objective of c_star")
                    require(objective <= e0 + ENERGY_TOL, f"{label}: relaxed objective {objective} above E0 {e0}")
                    continue
                require(abs(r["min_energy"] - e0) <= ENERGY_TOL, f"{label}: min_energy {r['min_energy']} != {e0}")
                if method == "qaoa":
                    kind, theta = ref.STANDARD_X, None
                else:
                    # the same relaxation as the qp solve, whose check covers it
                    require(r["c_star"] == qp["c_star"], f"{label}: c_star differs from the qp solve's")
                    kind, theta = ref.WARM_START, ref.warm_angles(r["c_star"], 0.0)
                energy, probs = check_state(label, r, energies, n, kind, theta, target, single_target=True)
                readout = probs[ref.index_of(r["assignment"])]
                require(readout >= probs.max() - PROB_TOL, f"{label}: assignment is not the most probable state")
                ratios.append(ref.normalised_ratio(energy, e0, e_max))
        return ratios


class Rounding(Workload):
    """Vector program, then hyperplane and sticky-diffusion roundings of its factor, per graph."""

    NAME = "rounding"
    SIZES = (12, 14, 16)
    HYPERPLANES = 10_000
    TRAJECTORIES = 200

    def prepare(self):
        self.graphs = []
        self.samples: dict = {}
        for k, n in enumerate(self.SIZES):
            path = self.workdir / f"graph{k}.txt"
            self.graphs.append(write_complete_graph(path, n, sub_seed(self.seed, "rounding", k)))
            self.solve(f"g{k}-sdp", path, ["--method", "sdp", "--seed", sub_seed(self.seed, "sdp", k)])
            self.ops.append((f"g{k}-hyperplane", lambda k=k: self.hyperplanes(k)))
            self.ops.append((f"g{k}-diffusion", lambda k=k: self.diffusion(k)))

    def factor(self, k: int):
        payload = json.loads((self.workdir / f"g{k}-sdp.json").read_text(encoding="utf-8"))
        return self.program.io.gram_factor_from_dict(payload["factor"])

    def hyperplanes(self, k: int):
        gw_round = self.program.relaxation.gw_round
        factor = self.factor(k)
        rng = np.random.default_rng(sub_seed(self.seed, "hyperplane", k))
        self.samples[f"g{k}-hyperplane"] = [gw_round(factor, rng) for _ in range(self.HYPERPLANES)]

    def diffusion(self, k: int):
        diffusion = self.program.diffusion
        cfg = diffusion.DiffusionConfig(trajectories=self.TRAJECTORIES, seed=sub_seed(self.seed, "diffusion", k))
        signs = diffusion.simulate_signs(self.factor(k), diffusion.krivine_speed, cfg)
        self.samples[f"g{k}-diffusion"] = signs.signs

    def check(self) -> list:
        ratios = []
        for k, edges in enumerate(self.graphs):
            n = self.SIZES[k]
            cuts = ref.cut_table(n, edges)
            max_cut, min_cut = cuts.max(), cuts.min()
            r = self.results[f"g{k}-sdp"]
            vectors = np.asarray(r["factor"]["vectors"])
            norms = np.linalg.norm(vectors, axis=1)
            require(np.max(np.abs(norms - 1.0)) <= 1e-9, f"g{k}: factor rows are not unit vectors")
            relaxed = ref.vector_program_value(edges, vectors)
            require(abs(r["value"] - relaxed) <= ENERGY_TOL * max_cut, f"g{k}: SDP value {r['value']} != {relaxed}")
            require(relaxed >= max_cut - ENERGY_TOL * max_cut, f"g{k}: SDP value {relaxed} below max cut {max_cut}")
            expected = ref.expected_hyperplane_cut(edges, vectors)
            require(abs(r["expected_cut"] - expected) <= ENERGY_TOL * max_cut, f"g{k}: expected_cut != {expected}")
            samples = {
                "hyperplane": np.array([cut.z for cut in self.samples[f"g{k}-hyperplane"]], dtype=float),
                "diffusion": self.samples[f"g{k}-diffusion"].astype(float),
            }
            for kind, z in samples.items():
                # cut of every sampled spin vector: sum_ij w_ij (1 - z_i z_j) / 2
                cut_samples = sum(0.5 * w * (1.0 - z[:, i] * z[:, j]) for i, j, w in edges)
                require(cut_samples.max() <= max_cut, f"g{k}: a {kind} cut exceeds the maximum")
                mean = cut_samples.mean()
                stderr = cut_samples.std(ddof=1) / np.sqrt(cut_samples.size)
                require(
                    abs(mean - expected) <= STDERR_LIMIT * stderr,
                    f"g{k}: mean {kind} cut {mean:.3f} is {abs(mean - expected) / stderr:.1f} standard errors "
                    f"from the expected {expected:.3f}",
                )
                ratios.append(ref.normalised_ratio(-mean, -max_cut, -min_cut))
        return ratios


class Composite:
    """Several parts run as one workload: a round runs every part's round.

    Each part keeps its own instances, in its own subdirectory, and its own
    checks; operation labels get the part's name as a prefix.
    """

    PARTS: tuple = ()

    def __init__(self, program, seed: int, workdir: Path):
        self.parts = {}
        for part in self.PARTS:
            (workdir / part.NAME).mkdir()
            self.parts[part.NAME] = part(program, seed, workdir / part.NAME)
        self.ops = [(f"{name}/{label}", op) for name, part in self.parts.items() for label, op in part.ops]

    @property
    def faults(self) -> dict:
        return {f"{name}/{label}": why for name, part in self.parts.items() for label, why in part.faults.items()}

    def clear(self):
        for part in self.parts.values():
            part.clear()

    def collect(self):
        for part in self.parts.values():
            part.collect()

    def check(self) -> list:
        return [ratio for part in self.parts.values() for ratio in part.check()]


class Recursion(Composite):
    """Depth-one correlators and relaxations; no statevector is built."""

    PARTS = (RecursiveMaxcut, Rounding)


class Statevector(Composite):
    """Statevector QAOA on a 14-qubit state and on 6- and 8-qubit portfolio states, and the box QP."""

    PARTS = (QaoaStatevector, PortfolioDepth)


WORKLOADS = {"recursion": Recursion, "statevector": Statevector}
