"""End-to-end acceptance gates, one test per criterion.

Each test prints a single PASS line with its headline statistic once its
assertions hold; run with ``pytest tests/test_acceptance.py -v -s``. The
statistical gates use fixed master seeds so every run is reproducible.
Expect the full module to take about four to five minutes.
"""

import numpy as np
import pytest

import wsqopt as w
from wsqopt.diffusion import (
    DiffusionConfig,
    correlation_report,
    krivine_speed,
    simulate_signs,
    tabulated,
)
from wsqopt.relaxation import GramFactor
from wsqopt.rqaoa import correlation_matrix_from_state
from wsqopt.seeding import derive_seed
from wsqopt.simulator import (
    STANDARD_X,
    WARM_START,
    WARM_START_ROUNDED,
    QaoaParams,
    depth1_correlator,
    index_of_bits,
    qaoa_state,
)
from wsqopt.variational import run_qaoa


def report(name: str, detail: str):
    print(f"\nACCEPTANCE PASS {name}: {detail}")


def test_criterion_01_rounded_warm_start_recovers_presolver_cut():
    """Depth one at (pi/2, 0) with eps=0.25 reproduces the seed cut exactly."""
    master = 101
    for idx in range(50):
        g = w.complete_graph(12, seed=derive_seed(master, "graph", idx))
        ising = w.maxcut_to_ising(g)
        cut = w.gw_best_cuts(g, 10, 1, seed=derive_seed(master, "gw", idx))[0]
        state = qaoa_state(
            ising,
            WARM_START_ROUNDED,
            QaoaParams([np.pi / 2], [0.0]),
            c_star=cut.bits().astype(float),
            epsilon=0.25,
        )
        flipped_index = index_of_bits(1 - cut.bits())
        amplitude = abs(state.amplitudes[flipped_index])
        assert amplitude == pytest.approx(1.0, abs=1e-9)
        bits = np.array([(flipped_index >> i) & 1 for i in range(g.n)])
        assert w.cut_value(g, 1 - 2 * bits) == pytest.approx(w.cut_value(g, cut.z))
    report("criterion 1", "50/50 graphs recovered their seed cut, |amplitude - 1| < 1e-9")


def test_criterion_02_half_epsilon_matches_standard_circuit():
    """At eps=0.5 the warm family equals the standard one, state for state."""
    master = 202
    rng = np.random.default_rng(master)
    worst = 0.0
    for idx in range(20):
        n = int(rng.integers(2, 11))
        g = w.random_graph(n, 0.6, weights=(-3.0, -1.0, 2.0), seed=int(rng.integers(2**32)))
        ising = w.maxcut_to_ising(g)
        p = int(rng.integers(1, 4))
        params = QaoaParams(rng.uniform(-np.pi, np.pi, p), rng.uniform(-np.pi, np.pi, p))
        warm = qaoa_state(ising, WARM_START, params, c_star=rng.uniform(0, 1, n), epsilon=0.5)
        standard = qaoa_state(ising, STANDARD_X, params)
        deviation = 1.0 - abs(np.vdot(warm.amplitudes, standard.amplitudes))
        worst = max(worst, deviation)
        assert deviation <= 1e-12
    report("criterion 2", f"20/20 instances, worst 1-|overlap| = {worst:.2e}")


def test_criterion_03_reduced_density_correlators_match_statevector():
    """O(n) pairwise correlators agree with the 2^n simulation to 1e-9."""
    master = 303
    rng = np.random.default_rng(master)
    worst = 0.0
    for idx in range(50):
        g = w.complete_graph(10, seed=derive_seed(master, "graph", idx))
        ising = w.maxcut_to_ising(g)
        c = rng.uniform(0, 1, 10)
        beta = rng.uniform(0, np.pi)
        gamma = rng.uniform(0, 2 * np.pi)
        kind = WARM_START if idx % 2 == 0 else WARM_START_ROUNDED
        state = qaoa_state(ising, kind, QaoaParams([beta], [gamma]), c_star=c, epsilon=0.25)
        oracle = correlation_matrix_from_state(state, g)
        for i, j, _ in g.edges:
            fast = depth1_correlator(g, c, 0.25, beta, gamma, i, j, kind)
            worst = max(worst, abs(fast - oracle[i, j]))
            assert abs(fast - oracle[i, j]) <= 1e-9
    report("criterion 3", f"50 draws x all edges, worst |delta| = {worst:.2e}")


def test_criterion_04_reduction_soundness_exhaustive():
    """Pinning one spin preserves the constrained optimum exactly."""
    master = 404
    rng = np.random.default_rng(master)
    for trial in range(100):
        n = int(rng.integers(3, 9))
        g = w.random_graph(
            n, 0.8, weights=tuple(float(v) for v in range(-5, 6) if v), seed=int(rng.integers(2**32))
        )
        elim, keep = (int(v) for v in rng.choice(n, size=2, replace=False))
        sign = int(rng.choice([-1, 1]))
        reduced, offset = w.reduce_maxcut(g, elim=elim, keep=keep, sign=sign)
        best_reduced = -np.inf
        for assignment in range(1 << reduced.n):
            z = 1 - 2 * np.array([(assignment >> b) & 1 for b in range(reduced.n)])
            best_reduced = max(best_reduced, w.cut_value(reduced, z))
        best_constrained = -np.inf
        for assignment in range(1 << n):
            z = 1 - 2 * np.array([(assignment >> b) & 1 for b in range(n)])
            if z[elim] != sign * z[keep]:
                continue
            best_constrained = max(best_constrained, w.cut_value(g, z))
        assert best_reduced + offset == pytest.approx(best_constrained, abs=1e-9)
    report("criterion 4", "100/100 random eliminations preserve the constrained optimum")


def test_criterion_05_hyperplane_rounding_statistics():
    """Average rounded-cut ratio on n=20 complete graphs sits in [0.78, 0.90]."""
    master = 505
    ratios = []
    for idx in range(20):
        g = w.complete_graph(20, seed=derive_seed(master, "graph", idx))
        _, ground = w.brute_force(w.maxcut_to_ising(g))
        max_cut = -ground
        factor = w.solve_maxcut_sdp(g, seed=derive_seed(master, "sdp", idx))
        rng = np.random.default_rng(derive_seed(master, "round", idx))
        values = [w.cut_value(g, w.gw_round(factor, rng).z) for _ in range(10)]
        ratios.append(np.mean(values) / max_cut)
    mean_ratio = float(np.mean(ratios))
    assert 0.78 <= mean_ratio <= 0.90
    report("criterion 5", f"mean per-graph average ratio = {mean_ratio:.4f}")


def test_criterion_06_diffusion_matches_arcsin_law():
    """Sticky-diffusion sign correlations reproduce (2/pi) arcsin(u.v)."""
    master = 606
    n_pairs = 10
    rng = np.random.default_rng(derive_seed(master, "pairs"))
    vectors = rng.standard_normal((2 * n_pairs, 8))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    factor = GramFactor(vectors=vectors, objective=0.0)
    cfg = DiffusionConfig(dt=1e-3, trajectories=20_000, seed=derive_seed(master, "mc"))
    samples = simulate_signs(factor, tabulated(krivine_speed), cfg)
    rows = correlation_report(samples, factor, [(2 * i, 2 * i + 1) for i in range(n_pairs)])
    worst = max(row.abs_error for row in rows)
    worst_sigmas = max(row.abs_error / row.stderr for row in rows)
    assert worst <= 0.03
    for row in rows:
        assert row.abs_error <= 3.0 * row.stderr
    report(
        "criterion 6",
        f"10 pairs, max |empirical - arcsin| = {worst:.4f} ({worst_sigmas:.2f} stderr), "
        f"truncated {samples.truncated_fraction():.2%}",
    )


def test_criterion_07_relaxation_bounds():
    """Box QP lower-bounds the binary optimum; vector program upper-bounds the cut."""
    master = 707
    rng = np.random.default_rng(master)
    for trial in range(100):
        n = int(rng.integers(2, 11))
        a = rng.normal(size=(n, n))
        qubo = w.QuboProblem(sigma=a @ a.T, mu=rng.normal(size=n))
        relaxed = w.solve_qp(qubo)
        _, binary_opt = w.brute_force(w.qubo_to_ising(qubo))
        assert relaxed.objective <= binary_opt + 1e-6
    for trial in range(100):
        n = int(rng.integers(3, 11))
        g = w.complete_graph(n, seed=int(rng.integers(2**32)))
        factor = w.solve_maxcut_sdp(g, seed=trial)
        _, ground = w.brute_force(w.maxcut_to_ising(g))
        assert factor.objective >= -ground - 1e-6
    report("criterion 7", "100 QP + 100 vector-program instances respect their bounds")


def test_criterion_08_warm_start_advantage_on_portfolios():
    """Warm-started depth-one sampling beats standard by at least 2x in the median."""
    master = 808
    ratios = []
    for idx in range(25):
        cfg = w.GbmConfig(n_assets=6, seed=derive_seed(master, "gbm", idx))
        instance = w.gbm_portfolio(cfg, q=2.0, budget=3, penalty=3.0)
        qubo = w.portfolio_qubo(instance)
        ising = w.qubo_to_ising(qubo)
        z_star, _ = w.brute_force(ising)
        target = ((1 - z_star) // 2).tolist()
        relaxed = w.solve_qp(qubo)
        probabilities = {}
        for method, kind, c_star in (
            ("std", STANDARD_X, None),
            ("ws", WARM_START, relaxed.c_star),
        ):
            result = run_qaoa(
                ising,
                kind,
                c_star=c_star,
                epsilon=0.0,
                p=1,
                seeding=("random", 10),
                seed=derive_seed(master, method, idx),
                target=target,
            )
            probabilities[method] = result.p_target
        if probabilities["std"] > 0:
            ratios.append(probabilities["ws"] / probabilities["std"])
        else:
            ratios.append(np.inf)
    median = float(np.median(ratios))
    assert median >= 2.0
    report("criterion 8", f"median P(optimal) ratio = {median:.1f} over 25 instances")


def test_criterion_09_depth_monotonicity_by_zero_padding():
    """Seeding depth p+1 with the padded depth-p optimum never hurts."""
    master = 909
    rng = np.random.default_rng(master)
    checked = 0
    for idx in range(10):
        n = 6
        g = w.complete_graph(n, seed=derive_seed(master, "graph", idx))
        ising = w.maxcut_to_ising(g)
        c_star = rng.uniform(0, 1, n)
        for kind in (STANDARD_X, WARM_START, WARM_START_ROUNDED):
            c = None if kind == STANDARD_X else c_star
            previous = run_qaoa(ising, kind, c_star=c, epsilon=0.25, p=1, seeding="grid")
            for p in range(2, 6):
                padded = np.concatenate(
                    [previous.params.betas, [0.0], previous.params.gammas, [0.0]]
                )
                current = run_qaoa(
                    ising, kind, c_star=c, epsilon=0.25, p=p, seeding=("explicit", padded)
                )
                assert current.energy <= previous.energy + 1e-9
                previous = current
                checked += 1
    report("criterion 9", f"{checked} depth extensions, all monotone within 1e-9")


def test_criterion_10_recursive_warm_start_comparison():
    """Warm-started recursion finds at least as many optima as the standard one
    and tracks the classical recursive benchmark."""
    master = 1010
    stats = {m: {"ratios": [], "optimal": 0} for m in ("standard", "warm-start", "classical-gw")}
    for idx in range(30):
        g = w.complete_graph(12, seed=derive_seed(master, "graph", idx))
        _, ground = w.brute_force(w.maxcut_to_ising(g))
        max_cut = -ground
        for mode in stats:
            cfg = w.RqaoaConfig(n_stop=6, n_samples=10, keep=5, epsilon=0.25, mode=mode)
            label = {"standard": "rqaoa", "warm-start": "ws-rqaoa", "classical-gw": "classical-gw"}[mode]
            result = w.run_rqaoa(g, cfg, seed=derive_seed(master, label, idx))
            stats[mode]["ratios"].append(result.value / max_cut if max_cut else 1.0)
            if abs(result.value - max_cut) < 1e-9:
                stats[mode]["optimal"] += 1
    ws_optimal = stats["warm-start"]["optimal"]
    std_optimal = stats["standard"]["optimal"]
    ws_mean = float(np.mean(stats["warm-start"]["ratios"]))
    classical_mean = float(np.mean(stats["classical-gw"]["ratios"]))
    assert ws_optimal >= std_optimal
    assert ws_mean >= classical_mean - 0.02
    report(
        "criterion 10",
        f"optima ws={ws_optimal} std={std_optimal} classical={stats['classical-gw']['optimal']} "
        f"of 30; mean ratios ws={ws_mean:.4f} classical={classical_mean:.4f}",
    )


def test_criterion_11_epsilon_sweep_endpoints():
    """eps=0 reproduces the seed cut's ratio; eps=0.25 does not regress."""
    master = 1111
    epsilons = (0.0, 0.1, 0.25, 0.4, 0.5)
    by_epsilon = {e: [] for e in epsilons}
    for idx in range(5):
        g = w.complete_graph(12, seed=derive_seed(master, "graph", idx))
        ising = w.maxcut_to_ising(g)
        _, ground = w.brute_force(ising)
        max_cut = -ground
        cuts = w.gw_best_cuts(g, 10, 5, seed=derive_seed(master, "gw", idx))
        for cut in cuts:
            seed_ratio = w.cut_value(g, cut.z) / max_cut
            for epsilon in epsilons:
                result = run_qaoa(
                    ising,
                    WARM_START_ROUNDED,
                    c_star=cut.bits().astype(float),
                    epsilon=epsilon,
                    p=1,
                    seeding="grid",
                )
                ratio = -result.energy / max_cut
                by_epsilon[epsilon].append(ratio)
                if epsilon == 0.0:
                    assert ratio == pytest.approx(seed_ratio, abs=1e-6)
    median_zero = float(np.median(by_epsilon[0.0]))
    median_quarter = float(np.median(by_epsilon[0.25]))
    assert median_quarter >= median_zero - 0.02
    report(
        "criterion 11",
        f"median ratio eps=0: {median_zero:.4f}, eps=0.25: {median_quarter:.4f}",
    )
