"""Warm-started quantum optimization toolkit.

Classical relaxations (box QP, low-rank MAXCUT vector program), randomized
rounding (hyperplane and sticky diffusions), dense statevector simulation of
warm-started alternating-operator circuits, and recursive variable
elimination, wired into a reproducible seeded CLI.
"""

from .diffusion import (
    DiffusionConfig,
    PairCorrelation,
    SignSamples,
    correlation_report,
    krivine_speed,
    poly_speed,
    simulate_signs,
)
from .generators import GbmConfig, complete_graph, gbm_portfolio, random_graph
from .problems import (
    CutAssignment,
    IsingModel,
    PortfolioInstance,
    QuboProblem,
    WeightedGraph,
    brute_force,
    cut_value,
    maxcut_to_ising,
    portfolio_qubo,
    qubo_to_ising,
    reduce_maxcut,
)
from .relaxation import (
    GramFactor,
    IterationLimitError,
    NotConvexError,
    RelaxedSolution,
    expected_cut_value,
    goemans_williamson_alpha,
    gw_best_cuts,
    gw_round,
    solve_maxcut_sdp,
    solve_qp,
)
from .rqaoa import (
    AmbiguousEliminationError,
    EliminationRecord,
    RqaoaConfig,
    RqaoaResult,
    aggregate_correlations,
    correlation_matrix_depth1,
    correlation_matrix_from_state,
    eliminate,
    run_classical_recursive_gw,
    run_rqaoa,
)
from .seeding import derive_seed
from .simulator import (
    MIXER_KINDS,
    STANDARD_X,
    WARM_START,
    WARM_START_ROUNDED,
    Circuit,
    Depth1Evaluator,
    MixerSpec,
    QaoaParams,
    StateTooLargeError,
    StateVector,
    WarmStartAngles,
    apply_cost_evolution,
    apply_mixer,
    depth1_correlator,
    expectation,
    prepare_ws_state,
    qaoa_state,
    sample,
)
from .variational import (
    GridSpec,
    MinimizeResult,
    QaoaResult,
    cut_probability,
    grid_refine,
    grid_search,
    minimize,
    probability_of,
    run_qaoa,
)

__version__ = "0.1.0"
